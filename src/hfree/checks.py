"""Check execution: evaluate a mode's predicate over sampled points and fold
the results into a deterministic report.

Every jet matrix is evaluated by its compiled entries (`jets.CompiledJet`),
cached per (frame, map), so the pointwise API and the checks share one jet.
Points are evaluated one after another, and the per-point results are folded
in sample order (extreme value, ties broken by lowest sample index).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .brackets import rp_bracket
from .constructions import verify_det_identity
from .expr import Add, EvalError, Mul, Sub, compile_expr, simplify
from .fields import ChartMismatch, Frame, SmoothMap, lie_derivative
from .jets import (
    compiled_d1,
    compiled_d2,
    rank_check,
    s,
)
from .manifest import Manifest, ManifestError, build_frame, build_map, build_outer, build_rp_structure
from .sampling import sample_points

FAILURE_CAP = 100


@dataclass
class Report:
    verdict: str  # pass | fail | below-critical-dimension
    mode: str
    points_checked: int
    worst_point: tuple | None
    worst_criterion: float | None
    failures: list = field(default_factory=list)
    fixture_notes: list = field(default_factory=list)
    wall_time_ms: float = 0.0

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict == "pass" else 1

    def to_dict(self, include_wall_time: bool = True) -> dict:
        worst = None
        if self.worst_point is not None:
            worst = {
                "point": list(self.worst_point),
                "criterion": self.worst_criterion,
            }
        out = {
            "verdict": self.verdict,
            "mode": self.mode,
            "points_checked": self.points_checked,
            "worst": worst,
            "failures": self.failures[:FAILURE_CAP],
            "fixture_notes": list(self.fixture_notes),
        }
        if include_wall_time:
            out["wall_time_ms"] = self.wall_time_ms
        return out

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_time), indent=2)


def _fold(mode: str, points, results, notes, started, smaller_is_worse: bool) -> Report:
    """results: per-point (criterion or None, ok, reason or None)."""
    failures = []
    worst_idx = None
    worst_val = None
    for i, (crit, ok, reason) in enumerate(results):
        if not ok and len(failures) < FAILURE_CAP:
            failures.append({"point": list(points[i]), "reason": reason})
        if crit is None:
            continue
        better = (
            worst_val is None
            or (crit < worst_val if smaller_is_worse else crit > worst_val)
        )
        if better:
            worst_idx = i
            worst_val = crit
    verdict = "pass" if not any(not ok for _, ok, _ in results) else "fail"
    return Report(
        verdict=verdict,
        mode=mode,
        points_checked=len(points),
        worst_point=tuple(points[worst_idx]) if worst_idx is not None else None,
        worst_criterion=worst_val,
        failures=failures,
        fixture_notes=list(notes),
        wall_time_ms=(time.perf_counter() - started) * 1000.0,
    )


def _below_critical(mode: str, notes=()) -> Report:
    return Report(
        verdict="below-critical-dimension",
        mode=mode,
        points_checked=0,
        worst_point=None,
        worst_criterion=None,
        fixture_notes=list(notes),
    )


def check_rank_mode(
    frame: Frame, smap: SmoothMap, points, tol: float, mode: str, notes=()
) -> Report:
    """Immersion (order 1) or free (order 2) full-rank check over points."""
    started = time.perf_counter()
    if mode == "immersion":
        if smap.q < frame.k:
            return _below_critical(mode, notes)
        jet = compiled_d1(frame, smap)
    else:
        if smap.q < frame.k + s(frame.k):
            return _below_critical(mode, notes)
        jet = compiled_d2(frame, smap)

    def one(point):
        try:
            report = rank_check(jet.at(point), tol)
        except (EvalError, ValueError) as exc:
            return None, False, str(exc)
        if report.full_rank:
            return report.sigma_min, True, None
        return report.sigma_min, False, f"rank {report.rank} < {jet.shape[0]}"

    results = [one(p) for p in points]
    return _fold(mode, points, results, notes, started, smaller_is_worse=True)


def check_identity_mode(
    frame: Frame, smap: SmoothMap, outer: SmoothMap, points, tol: float, notes=()
) -> Report:
    started = time.perf_counter()

    def one(point):
        try:
            res = verify_det_identity(frame, smap, outer, point, tol)
        except (EvalError, ChartMismatch, ValueError) as exc:
            return None, False, str(exc)
        if res.rel_residual <= tol:
            return res.rel_residual, True, None
        return (
            res.rel_residual,
            False,
            f"residual {res.rel_residual:.3e} exceeds {tol:.3e}",
        )

    results = [one(p) for p in points]
    return _fold("identity", points, results, notes, started, smaller_is_worse=False)


def bracket_law_residuals(bracket, tests):
    """Symbolic residual expressions for antisymmetry, Leibniz and Jacobi over
    the given test expressions."""
    residuals = []
    n = len(tests)
    for i in range(n):
        for j in range(i, n):
            f, g = tests[i], tests[j]
            residuals.append(
                ("antisymmetry", simplify(Add(bracket(f, g), bracket(g, f))))
            )
    for i in range(min(n, 3)):
        f = tests[i]
        g = tests[(i + 1) % n]
        h = tests[(i + 2) % n]
        leib = Sub(bracket(f, Mul(g, h)), Add(Mul(g, bracket(f, h)), Mul(h, bracket(f, g))))
        residuals.append(("leibniz", simplify(leib)))
        jac = Add(
            Add(bracket(f, bracket(g, h)), bracket(g, bracket(h, f))),
            bracket(h, bracket(f, g)),
        )
        residuals.append(("jacobi", simplify(jac)))
    return residuals


def check_bracket_laws(bracket, chart, tests, points, tol: float, notes=()) -> Report:
    if len(tests) < 3:
        raise ManifestError("bracket-laws mode needs at least three test expressions")
    started = time.perf_counter()
    compiled = [
        (label, compile_expr(expr)) for label, expr in bracket_law_residuals(bracket, tests)
    ]

    def one(point):
        binding = chart.bind(point)
        worst = 0.0
        reason = None
        for label, fn in compiled:
            try:
                value = abs(fn(binding))
            except EvalError as exc:
                return None, False, f"{label}: {exc}"
            if value > worst:
                worst = value
                if value > tol:
                    reason = f"{label} residual {value:.3e} exceeds {tol:.3e}"
        return worst, reason is None, reason

    results = [one(p) for p in points]
    return _fold("bracket-laws", points, results, notes, started, smaller_is_worse=False)


def run_check(m: Manifest) -> Report:
    """Execute a manifest's check over its sampled domain."""
    points = sample_points(m.chart, m.samples, m.seed, m.grid)
    if m.mode in ("immersion", "free"):
        frame = build_frame(m)
        smap = build_map(m)
        return check_rank_mode(frame, smap, points, m.tolerance, m.mode)
    if m.mode == "identity":
        frame = build_frame(m)
        smap = build_map(m)
        if smap.q != frame.k:
            raise ManifestError(
                f"identity mode needs a critical-dimension map with {frame.k} components"
            )
        outer = build_outer(m, frame.k)
        if outer.chart.dim != frame.k or outer.q != frame.k + s(frame.k):
            raise ManifestError(
                f"outer map must be {frame.k} -> {frame.k + s(frame.k)}"
            )
        return check_identity_mode(frame, smap, outer, points, m.tolerance)
    if m.mode == "bracket-laws":
        if m.structure is None:
            raise ManifestError("bracket-laws mode requires a [structure] section")
        kind = m.structure.get("type")
        if kind == "canonical":
            from .brackets import SymplecticChart, canonical_bracket

            n = int(m.structure.get("n", m.chart.dim // 2))
            sc = SymplecticChart(n=n, chart=m.chart)
            bracket = lambda f, g: canonical_bracket(sc, f, g)
        elif kind == "riemann-poisson":
            structure = build_rp_structure(m)
            bracket = lambda f, g: rp_bracket(structure, f, g)
        else:
            raise ManifestError(
                f"bracket-laws mode needs a canonical or riemann-poisson structure, got {kind!r}"
            )
        from .manifest import _parse_expr

        tests = [_parse_expr(c, "map components") for c in m.map_components]
        return check_bracket_laws(bracket, m.chart, tests, points, m.tolerance)
    raise ManifestError(f"unknown mode {m.mode!r}")


def run_fixture(fix, samples: int = 10000, seed: int = 0, tol: float = 1e-9) -> Report:
    """Run a gallery fixture: expected-formula comparison, immersion check of
    the candidate map, free check of the composed map, first-integral
    witnesses; bracket laws when the fixture declares a bracket."""
    started = time.perf_counter()
    notes = list(fix.notes)

    if fix.immersion is None:
        points = sample_points(fix.chart, samples, seed)
        report = check_bracket_laws(
            fix.bracket, fix.chart, list(fix.bracket_tests), points, max(tol, 1e-8), notes
        )
        report.mode = "gallery"
        return report

    points = sample_points(fix.chart, samples, seed)
    d1 = compiled_d1(fix.frame, fix.immersion)
    d2 = compiled_d2(fix.frame, fix.free_map)
    expected_fns = []
    for row, col, expr in fix.expected:
        actual = lie_derivative(fix.frame.vectors[row], fix.immersion.components[col])
        expected_fns.append(
            (
                row,
                col,
                compile_expr(simplify(Sub(actual, expr))),
                compile_expr(expr),
            )
        )
    witness_fns = [
        compile_expr(simplify(Sub(lie_derivative(fix.frame.vectors[0], w), expect)))
        for w, expect in fix.witnesses
    ]

    def one(point):
        binding = fix.chart.bind(point)
        reason = None
        for row, col, residual_fn, scale_fn in expected_fns:
            diff = abs(residual_fn(binding))
            if diff > 1e-10 * max(1.0, abs(scale_fn(binding))):
                reason = f"expected formula mismatch at jet entry ({row},{col}): {diff:.3e}"
                break
        if reason is None:
            for i, fn in enumerate(witness_fns):
                if abs(fn(binding)) > 1e-12:
                    reason = f"witness {i} derivative not zero: {abs(fn(binding)):.3e}"
                    break
        crit = None
        if reason is None:
            try:
                r1 = rank_check(d1.at(point), tol)
                r2 = rank_check(d2.at(point), tol)
            except (EvalError, ValueError) as exc:
                return None, False, str(exc)
            crit = min(r1.sigma_min, r2.sigma_min)
            if not r1.full_rank:
                reason = f"immersion rank {r1.rank} < {fix.frame.k}"
            elif not r2.full_rank:
                reason = f"free-map rank {r2.rank} < {fix.frame.k + s(fix.frame.k)}"
        return crit, reason is None, reason

    results = [one(p) for p in points]
    return _fold("gallery", points, results, notes, started, smaller_is_worse=True)
