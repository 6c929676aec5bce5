"""Check execution: evaluate a mode's predicate over sampled points and fold
the outcomes into a deterministic report.

Every check runs through one loop, `_run`, which hands CHUNK rows at a time of
one (n, dim) array of finite points to the mode's judge and folds the judge's
per-point criterion and failure reasons into the report in sample order
(extreme value, ties to the lowest sample index), so the report does not depend
on CHUNK. A judge compiles each jet and each set of residuals once into one
tape of numpy calls (`expr.compile_batch`; `jets` memoises each jet weakly on
its map), so a chunk costs one run of each tape, then one batched ranking or
determinant call; `expr.evaluate`, the reference interpreter, takes the points
where a call faults. A value beyond the float range is such a fault, an
`overflow`, in both engines, so a judge reads only finite values: a point that
faults fails with its EvalError and has no criterion. The SVD sees only the
dense matrices of a stack that a Gram screen cannot clear: a diagonal one,
such as every 1 x 1 jet, is ranked from its diagonal, and a cleared one is
full rank with an estimated sigma_min above the least (`jets.stack_ranks`).
A judge ranks each jet among the points it folds, so the worst criterion is
exact, never an estimate. `build_plan` builds a manifest's check;
`check_points` makes the immersion, free or identity check over given
points, and the pointwise predicates are reads of it at one point.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .brackets import jacobiator
from .constructions import DetIdentity, monomial_free_map
from .expr import Add, Coord, Mul, Sub, compile_batch, simplify
from .fields import Frame, SmoothMap, lie_derivative
from .jets import DEFAULT_TOL, BelowCriticalDimension, compiled_d1, compiled_d2, s, valid_mask
from .manifest import Manifest, build_plan
from .sampling import sample_points

# Points per chunk. Below 512 each tape op's numpy call costs more than its
# arithmetic; above it chunks buy little speed and cost memory: running the
# ten gallery fixtures at 10^4 samples in one process peaked at 32.4 MB RSS
# point by point, 32.5 MB with 256, 33.4-33.7 MB with 512, 34.9 MB with 1024
# and 45.4 MB with 4096.
CHUNK = 512
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
            # JSON has no inf: a finite stack can still have a singular value
            # beyond the float range, and that criterion is null
            crit = self.worst_criterion if math.isfinite(self.worst_criterion) else None
            worst = {"point": list(self.worst_point), "criterion": crit}
        out = {
            "verdict": self.verdict,
            "mode": self.mode,
            "points_checked": self.points_checked,
            "worst": worst,
            "failures": list(self.failures),
            "fixture_notes": list(self.fixture_notes),
        }
        if include_wall_time:
            out["wall_time_ms"] = self.wall_time_ms
        return out

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_time), indent=2, allow_nan=False)


class _Fold:
    """The running report: chunks' per-point outcomes folded in sample order
    into the worst criterion (ties to the lowest sample index) and the first
    FAILURE_CAP failures. A criterion is never nan: a point without a number
    to rank it by has none."""

    def __init__(self, points, smaller_is_worse: bool):
        self.points = points
        self.smaller_is_worse = smaller_is_worse
        self.worst_idx = None
        self.worst_val = None
        self.failures = []
        self.failed = False

    def add(self, start: int, crit: np.ndarray, has_crit: np.ndarray, reasons: dict):
        """Fold the chunk at offset `start`: crit[i] is point i's criterion,
        not nan, where has_crit[i], and reasons[i] says why point i fails."""
        self.failed = self.failed or bool(reasons)
        for i in sorted(reasons)[: FAILURE_CAP - len(self.failures)]:
            self.failures.append({"point": self.points[start + i].tolist(), "reason": reasons[i]})
        idx = np.flatnonzero(has_crit)
        if not idx.size:
            return
        vals = crit[idx]
        j = int(np.argmin(vals) if self.smaller_is_worse else np.argmax(vals))
        val = float(vals[j])
        if (
            self.worst_val is None
            or (val < self.worst_val if self.smaller_is_worse else val > self.worst_val)
        ):
            self.worst_idx, self.worst_val = start + int(idx[j]), val

    def report(self, mode: str, notes, started: float) -> Report:
        worst = self.worst_idx
        return Report(
            verdict="fail" if self.failed else "pass",
            mode=mode,
            points_checked=len(self.points),
            worst_point=tuple(self.points[worst].tolist()) if worst is not None else None,
            worst_criterion=self.worst_val,
            failures=self.failures,
            fixture_notes=list(notes),
            wall_time_ms=(time.perf_counter() - started) * 1000.0,
        )


def _run(mode: str, points: np.ndarray, judge, smaller_is_worse: bool, started: float, notes=()) -> Report:
    """The one chunk loop of every check. judge(chunk) returns, for each row
    of a slice of the points, its criterion, whether it has one, and the
    reasons of the points that fail; the outcomes are folded in sample order.
    A judge of None means the target dimension is below the critical one."""
    if judge is None:
        return Report("below-critical-dimension", mode, 0, None, None, fixture_notes=list(notes))
    fold = _Fold(points, smaller_is_worse)
    for start in range(0, len(points), CHUNK):
        fold.add(start, *judge(points[start : start + CHUNK]))
    return fold.report(mode, notes, started)


def _rank_deficient(r, message: str) -> dict:
    """`message` formatted with the rank, for each point with a rank verdict
    that is not full rank."""
    return {i: message.format(r.rank[i]) for i in np.flatnonzero(r.valid & ~r.full_rank).tolist()}


def _rank_judge(frame: Frame, smap: SmoothMap, tol: float, mode: str):
    """Judge of immersion (order 1) or free (order 2) mode: the least singular
    value of the jet; None below the critical dimension."""
    rows = frame.k if mode == "immersion" else frame.k + s(frame.k)
    if smap.q < rows:
        return None
    jet = (compiled_d1 if mode == "immersion" else compiled_d2)(frame, smap)

    def judge(chunk):
        r = jet.ranks(chunk, tol)
        reasons = _rank_deficient(r, f"rank {{}} < {rows}")
        reasons.update(r.reasons)
        return r.sigma_min, r.valid, reasons

    return judge


def _identity_judge(identity: DetIdentity, tol: float):
    """Judge of identity mode (see constructions.DetIdentity)."""

    def judge(chunk):
        _, _, rel, failures = identity.residuals(chunk)
        values = rel.tolist()
        reasons = {
            i: f"residual {values[i]:.3e} exceeds {tol:.3e}"
            for i in np.flatnonzero(~(rel <= tol)).tolist()
        }
        reasons.update((i, str(exc)) for i, exc in failures.items())
        return rel, valid_mask(len(chunk), failures), reasons

    return judge


def _mode_judge(mode: str, frame: Frame, smap: SmoothMap, tol: float, outer: SmoothMap | None):
    """Judge of immersion, free or identity mode; None below the critical
    dimension. Identity mode's outer map defaults to monomial_free_map(k)."""
    if mode == "identity":
        return _identity_judge(DetIdentity(frame, smap, outer or monomial_free_map(frame.k)), tol)
    if mode in ("immersion", "free"):
        return _rank_judge(frame, smap, tol, mode)
    raise ValueError(f"mode must be immersion, free or identity, got {mode!r}")


def _check(points: np.ndarray, frame: Frame, smap: SmoothMap, mode: str, tol: float, outer=None) -> Report:
    """check_points over points already validated."""
    started = time.perf_counter()
    judge = _mode_judge(mode, frame, smap, tol, outer)
    return _run(mode, points, judge, mode != "identity", started)


def check_points(
    frame: Frame, smap: SmoothMap, points, mode: str, tol: float = DEFAULT_TOL, outer: SmoothMap | None = None
) -> Report:
    """Immersion, free or identity check of the map over points (see
    Chart.point_array), as run_check makes it over a manifest's samples."""
    return _check(frame.chart.point_array(points), frame, smap, mode, tol, outer)


def _passes_at(frame: Frame, smap: SmoothMap, point, mode: str, tol: float) -> bool:
    """Whether the check of a rank mode passes at one point of the chart's
    box; a point where evaluation faults fails."""
    report = _check(frame.chart.check_point(point), frame, smap, mode, tol)
    if report.verdict == "below-critical-dimension":
        raise BelowCriticalDimension(f"target dimension {smap.q} below the critical dimension of {mode} mode")
    return report.verdict == "pass"


def is_immersion_at(frame: Frame, f: SmoothMap, point, tol: float = DEFAULT_TOL) -> bool:
    """Full-rank verdict of the order-1 jet matrix at the point."""
    return _passes_at(frame, f, point, "immersion", tol)


def is_free_at(frame: Frame, f: SmoothMap, point, tol: float = DEFAULT_TOL) -> bool:
    """Full-rank verdict of the order-2 jet matrix at the point."""
    return _passes_at(frame, f, point, "free", tol)


def frame_rank_check(frame: Frame, point, tol: float = DEFAULT_TOL) -> bool:
    """True iff the frame's component matrix has full rank at the point. It
    is the order-1 jet of the coordinate map, since L_xi x^i = xi^i."""
    coords = SmoothMap(frame.chart, tuple(Coord(c) for c in frame.chart.coords))
    return is_immersion_at(frame, coords, point, tol)


def bracket_law_residuals(bracket, tests):
    """Symbolic residual expressions for antisymmetry, Leibniz and Jacobi over
    the given test expressions."""
    n = len(tests)
    residuals = [
        ("antisymmetry", simplify(Add(bracket(f, g), bracket(g, f))))
        for i, f in enumerate(tests)
        for g in tests[i:]
    ]
    for i in range(min(n, 3)):
        f, g, h = tests[i], tests[(i + 1) % n], tests[(i + 2) % n]
        leib = Sub(bracket(f, Mul(g, h)), Add(Mul(g, bracket(f, h)), Mul(h, bracket(f, g))))
        residuals.append(("leibniz", simplify(leib)))
        residuals.append(("jacobi", jacobiator(bracket, f, g, h)))
    return residuals


def _bracket_judge(bracket, chart, tests, tol: float):
    """Judge of the bracket laws over the test expressions."""
    residuals = bracket_law_residuals(bracket, tests)
    labels = [label for label, _ in residuals]
    run = compile_batch([expr for _, expr in residuals], chart.coords)

    def judge(chunk):
        values, errors = run(chunk)
        # per point, the largest |residual| and the first residual that reaches it
        size = np.abs(values)
        first = np.argmax(size, axis=1)
        worst = size[np.arange(len(chunk)), first]
        reasons = {
            i: f"{labels[first[i]]} residual {float(worst[i]):.3e} exceeds {tol:.3e}"
            for i in np.flatnonzero(worst > tol).tolist()
        }
        reasons.update((i, f"{labels[j]}: {exc}") for i, (j, exc) in errors.items())
        return worst, valid_mask(len(chunk), errors), reasons

    return judge


def run_check(m: Manifest) -> Report:
    """Execute a manifest's check over its sampled domain."""
    started = time.perf_counter()
    plan = build_plan(m)
    if m.mode == "bracket-laws":
        judge = _bracket_judge(plan.bracket, m.chart, plan.smap.components, m.tolerance)
    else:
        judge = _mode_judge(m.mode, plan.frame, plan.smap, m.tolerance, plan.outer)
    return _run(m.mode, plan.points, judge, m.mode in ("immersion", "free"), started)


def run_fixture(fix, samples: int = 10000, seed: int = 0, tol: float = 1e-9) -> Report:
    """Run a gallery fixture: expected-formula comparison, immersion check of
    the candidate map, free check of the composed map and first-integral
    witnesses; for a fixture without an immersion (novikov-t3), the bracket
    laws of its bracket instead. The other fixtures' `bracket` fields are
    read only by tests/test_acceptance.py."""
    started = time.perf_counter()
    points = sample_points(fix.chart, samples, seed)
    if fix.immersion is None:
        judge = _bracket_judge(fix.bracket, fix.chart, list(fix.bracket_tests), max(tol, 1e-8))
        return _run("gallery", points, judge, False, started, fix.notes)

    k = fix.frame.k
    d1 = compiled_d1(fix.frame, fix.immersion)
    d2 = compiled_d2(fix.frame, fix.free_map)
    # per expected entry its residual and its scale, then the witnesses
    formulas = []
    for row, col, expr in fix.expected:
        actual = lie_derivative(fix.frame.vectors[row], fix.immersion.components[col])
        formulas += [simplify(Sub(actual, expr)), expr]
    formulas += [
        simplify(Sub(lie_derivative(fix.frame.vectors[0], w), expect))
        for w, expect in fix.witnesses
    ]
    run = compile_batch(formulas, fix.chart.coords)
    n_expected = len(fix.expected)

    def judge(chunk):
        values, errors = run(chunk)
        if errors:  # a fixture's formulas are defined on its whole box
            raise errors[min(errors)][1]
        size = np.abs(values)
        residual = size[:, : 2 * n_expected : 2]
        scale = size[:, 1 : 2 * n_expected : 2]
        mismatch = residual > 1e-10 * np.maximum(scale, 1.0)
        witness = size[:, 2 * n_expected :] > 1e-12
        formula_reasons = {}  # the first witness, then the first mismatch over it
        for i in np.flatnonzero(witness.any(axis=1)).tolist():
            j = int(np.argmax(witness[i]))
            formula_reasons[i] = f"witness {j} derivative not zero: {float(size[i, 2 * n_expected + j]):.3e}"
        for i in np.flatnonzero(mismatch.any(axis=1)).tolist():
            j = int(np.argmax(mismatch[i]))
            row, col, _ = fix.expected[j]
            formula_reasons[i] = f"expected formula mismatch at jet entry ({row},{col}): {float(residual[i, j]):.3e}"
        # each jet's least sigma_min is exact among the points folded
        folded = valid_mask(len(chunk), formula_reasons)
        r1 = d1.ranks(chunk, tol, folded)
        r2 = d2.ranks(chunk, tol, folded & r1.valid)
        if not r2.valid[folded & r1.valid].all():  # D1's least may be a point D2 leaves out
            r1 = d1.ranks(chunk, tol, folded & r2.valid)
        has_crit = folded & r1.valid & r2.valid
        # lowest first: a formula mismatch hides the jets, a jet without a
        # verdict hides rank deficiency, and D1 comes before D2
        reasons = _rank_deficient(r2, f"free-map rank {{}} < {k + s(k)}")
        reasons.update(_rank_deficient(r1, f"immersion rank {{}} < {k}"))
        reasons.update(r2.reasons)
        reasons.update(r1.reasons)
        reasons.update(formula_reasons)
        crit = np.where(r2.sigma_min < r1.sigma_min, r2.sigma_min, r1.sigma_min)
        return crit, has_crit, reasons

    return _run("gallery", points, judge, True, started, fix.notes)
