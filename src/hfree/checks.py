"""Check execution: evaluate a mode's predicate over sampled points and fold
the outcomes into a deterministic report.

Every check takes one path. One table, `_judge`, compiles a plan
(manifest.Plan) into the judge of its mode, or None below the critical
dimension, and the plan keeps it. `_check` then runs the one loop, `_run`,
which hands a chunk of rows at a time of one (n, dim) array of finite points
to the judge, with the check's tolerance and its worst criterion so far, and
folds the judge's per-point criterion and failure reasons into the report in
sample order (extreme value in the judge's own direction,
judge.smaller_is_worse, ties to the lowest sample index), so the report does
not depend on the chunk length. That length is the judge's own: as many
points as fit its per-point floats into CHUNK_BYTES, and never fewer than
CHUNK, so a small jet pays each chunk's fixed set of numpy calls fewer times
and a large one holds about CHUNK_BYTES. A check compiles its jets, or its
residuals, once into one tape of numpy calls (`expr.compile_batch`):
construct mode's D1 of f and D2 of F o f share one, and so do identity
mode's D2 of f, f, D2 of F at f and D2 of F o f. So a chunk costs one run of
its tape, then one batched ranking per jet or the determinant calls; a run
that faults runs once more as a trace, which names each point's first
fault. A value beyond the float range is such a fault, an `overflow`, so a
judge reads only finite values: a point that faults fails with its
EvalError and has no criterion. A rank judge's criterion is its jets' least
sigma_min, exact wherever it can become the check's worst: how the jets'
stacks are ranked, and screened against the check's least so far, is
`jets._rank_stacks`' and `jets._stack_ranks`'.

`run_check` runs a manifest's check, and `run_fixture` a gallery manifest's
at given samples and seed; both build the manifest's plan (`build_plan`) at
its first check and keep it, and its judge, on the manifest. `check_points`
makes the immersion, free, construct or identity check over given points on
a plan of its own, and the pointwise predicates are reads of it at one
point.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .brackets import jacobiator
from .constructions import DetIdentity, compose, monomial_free_map
from .expr import Add, Coord, Mul, Sub, compile_batch, simplify
from .fields import Frame, SmoothMap
from .jets import (
    DEFAULT_TOL,
    BelowCriticalDimension,
    CompiledJet,
    d1_exprs,
    d2_exprs,
    s,
    valid_mask,
)
from .manifest import MODES, Manifest, Plan, build_plan, draw_points, too_deep
from .sampling import sample_points

# The least points per chunk: below it each tape op's numpy call costs more
# than its arithmetic.
CHUNK = 512
# The bytes a chunk may hold: a judge's chunk is max(CHUNK, CHUNK_BYTES //
# (8 * floats)) points, where `floats` is what its compiled parts and its own
# arrays hold per point (see expr.compile_batch). 2 MiB is what the largest
# gallery checks held in chunks of CHUNK points when a tape kept every
# register to the end of its run: integrable-torus-3 and contact-2 peaked at
# 2.10 and 1.84 MiB. With the tapes' buffers reused, the Gram screen
# counted as it allocates, construct mode's two jets in one tape and each jet
# holding only its entries that are not the constant 0 (see
# jets.CompiledJet), they run in chunks of 1,291 and 2,080 points, and at
# 10^4 samples under tracemalloc every gallery check peaks at 0.93-1.37
# times CHUNK_BYTES, its parsed manifest, sample points and compiled jets
# included. glibc's malloc hands the free memory at the top of its heap back
# to the system once it exceeds twice the largest block freed so far, and
# each page handed back faults again when the next chunk takes it (about 3.7
# us a page on a 2-vCPU Xeon guest: contact-2 at 10^4 samples ran in 17.8
# ms without faults and in 25.2-26.0 ms with 2,180). So a check keeps its
# chunk's largest arrays in one block, about half of what the chunk holds or
# more: the Gram screen's vectors and room for the copy its pass A factors, a
# block of the same size in every chunk, though pass A copies only a prefix
# and a chunk ranked against the check's least none (jets._screen), or
# identity mode's tape values, the entries its jets hold, whose determinants
# then copy at most one matrix a point at a time: peeled factors, a core or
# the whole matrices handed back to np.linalg.det (constructions.Peel and
# DetIdentity.floats).
CHUNK_BYTES = 2 << 20
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


def _run(mode: str, points: np.ndarray, judge, tol: float, started: float, notes=()) -> Report:
    """The one chunk loop of every check. judge(chunk, worst, tol) returns,
    for each row of a slice of the points, its criterion, whether it has one,
    and the reasons of the points that fail at tolerance `tol`; the outcomes
    are folded in sample order, toward the judge's own direction of worse,
    judge.smaller_is_worse. `worst` is the fold's worst criterion so far,
    None before any, so a rank judge needs no exact value above it.
    judge.floats() is what it holds per point, which sizes the chunks; it is
    read only for a check of more than CHUNK points, so a small check builds
    no screen plan to count. A judge of None means the target dimension is
    below the critical one."""
    if judge is None:
        return Report("below-critical-dimension", mode, 0, None, None, fixture_notes=list(notes))
    fold = _Fold(points, judge.smaller_is_worse)
    step = CHUNK if len(points) <= CHUNK else max(CHUNK, CHUNK_BYTES // (8 * judge.floats()))
    for start in range(0, len(points), step):
        fold.add(start, *judge(points[start : start + step], fold.worst_val, tol))
    return fold.report(mode, notes, started)


def _rank_deficient(r, message: str) -> dict:
    """`message` formatted with the rank, for each point with a rank verdict
    that is not full rank."""
    return {i: message.format(r.rank[i]) for i in np.flatnonzero(r.valid & ~r.full_rank).tolist()}


def _rank_judge(jet: CompiledJet, messages: list):
    """Judge of immersion, free and construct modes: each of the jets must
    have full rank, which `messages` (one per jet, formatted with its rank)
    says where it has not. The criterion is the least sigma_min of the jets,
    and a smaller one is worse.
    The reasons rank lowest first: a jet without a verdict hides rank
    deficiency, and an earlier jet comes before a later one. A criterion is
    exact where it is at most `least`, the check's least so far (see
    CompiledJet.ranks): only such a one can become the check's worst."""

    def judge(chunk, least, tol):
        ranks = jet.ranks(chunk, tol, least)
        reasons = {}
        for r, message in reversed(list(zip(ranks, messages))):
            reasons.update(_rank_deficient(r, message))
        for r in reversed(ranks):
            reasons.update(r.reasons)
        crit, valid = ranks[0].sigma_min, ranks[0].valid
        for r in ranks[1:]:
            crit = np.where(r.sigma_min < crit, r.sigma_min, crit)
            valid = valid & r.valid
        return crit, valid, reasons

    judge.floats, judge.smaller_is_worse = lambda: jet.floats, True
    return judge


def _identity_judge(identity: DetIdentity):
    """Judge of identity mode (see constructions.DetIdentity): the criterion
    is the relative residual, and a larger one is worse."""

    def judge(chunk, worst, tol):
        _, _, rel, failures = identity.residuals(chunk)
        reasons = {
            i: f"residual {float(rel[i]):.3e} exceeds {tol:.3e}"
            for i in np.flatnonzero(~(rel <= tol)).tolist()
        }
        reasons.update((i, str(exc)) for i, exc in failures.items())
        return rel, valid_mask(len(chunk), failures), reasons

    judge.floats, judge.smaller_is_worse = lambda: identity.floats, False
    return judge


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


def _bracket_judge(labels, run):
    """Judge of the bracket laws: `run` is the compiled residuals, labelled
    by `labels` (see bracket_law_residuals). The criterion is a point's
    largest |residual|, and a larger one is worse."""

    def judge(chunk, worst, tol):
        values, errors = run(chunk)
        # per point, the largest |residual| and the first residual that reaches it
        size = np.abs(values, out=values)
        first = np.argmax(size, axis=1)
        worst = np.max(size, axis=1)
        reasons = {
            i: f"{labels[first[i]]} residual {float(worst[i]):.3e} exceeds {tol:.3e}"
            for i in np.flatnonzero(worst > tol).tolist()
        }
        reasons.update((i, f"{labels[j]}: {exc}") for i, (j, exc) in errors.items())
        return worst, valid_mask(len(chunk), errors), reasons

    # and per point its worst value and where it is
    judge.floats, judge.smaller_is_worse = lambda: run.floats() + 2, False
    return judge


def _judge(mode: str, plan: Plan):
    """The compiled check of a plan in one of manifest.MODES, as its judge
    (see _run), or None below the critical dimension. Construct mode ranks
    D1 of the map f and D2 of outer(f) in one tape; its outer map defaults
    to monomial_free_map(q), and identity mode's to monomial_free_map(k).
    Bracket-laws mode compiles the residuals of the plan's bracket over its
    map's components (see bracket_law_residuals)."""
    frame, smap = plan.frame, plan.smap
    if mode == "bracket-laws" and plan.bracket is not None:
        residuals = bracket_law_residuals(plan.bracket, smap.components)
        run = compile_batch([expr for _, expr in residuals], smap.chart.coords)
        return _bracket_judge([label for label, _ in residuals], run)
    if mode == "identity":
        return _identity_judge(DetIdentity(frame, smap, plan.outer or monomial_free_map(frame.k)))
    k, rows = frame.k, frame.k + s(frame.k)
    if mode in ("immersion", "free"):
        need, exprs = (k, d1_exprs) if mode == "immersion" else (rows, d2_exprs)
        if smap.q < need:
            return None
        return _rank_judge(CompiledJet([exprs(frame, smap)], frame.chart), [f"rank {{}} < {need}"])
    if mode == "construct":
        composite = compose(plan.outer or monomial_free_map(smap.q), smap)
        if smap.q < k or composite.q < rows:
            return None
        jet = CompiledJet([d1_exprs(frame, smap), d2_exprs(frame, composite)], frame.chart)
        return _rank_judge(jet, [f"immersion rank {{}} < {k}", f"free-map rank {{}} < {rows}"])
    raise ValueError(f"mode must be one of {MODES} (bracket-laws with a bracket), got {mode!r}")


def _check(mode: str, plan: Plan, points: np.ndarray, tol: float, started: float, notes=()) -> Report:
    """The one path of every check: the plan's judge, compiled at its first
    check and kept on the plan, run over points already validated."""
    if plan.judge is None:
        plan.judge = _judge(mode, plan)
    return _run(mode, points, plan.judge, tol, started, notes)


def check_points(
    frame: Frame, smap: SmoothMap, points, mode: str, tol: float = DEFAULT_TOL, outer: SmoothMap | None = None
) -> Report:
    """Immersion, free, construct or identity check of the map over points
    (see Chart.point_array), as run_check makes it over a manifest's samples."""
    points = frame.chart.point_array(points)
    return _check(mode, Plan(frame, smap, outer), points, tol, time.perf_counter())


def _passes_at(frame: Frame, smap: SmoothMap, point, mode: str, tol: float) -> bool:
    """Whether the check of a rank mode passes at one point of the chart's
    box; a point where evaluation faults fails."""
    report = _check(mode, Plan(frame, smap), frame.chart.check_point(point), tol, time.perf_counter())
    if report.verdict == "below-critical-dimension":
        raise BelowCriticalDimension(f"target dimension {smap.q} below the critical dimension of {mode} mode")
    return report.verdict == "pass"


def is_immersion_at(frame: Frame, f: SmoothMap, point, tol: float = DEFAULT_TOL) -> bool:
    """Full-rank verdict of the order-1 jet matrix at the point. Each call
    compiles the jet; for many points, call check_points once."""
    return _passes_at(frame, f, point, "immersion", tol)


def is_free_at(frame: Frame, f: SmoothMap, point, tol: float = DEFAULT_TOL) -> bool:
    """Full-rank verdict of the order-2 jet matrix at the point. Each call
    compiles the jet; for many points, call check_points once."""
    return _passes_at(frame, f, point, "free", tol)


def frame_rank_check(frame: Frame, point, tol: float = DEFAULT_TOL) -> bool:
    """True iff the frame's component matrix has full rank at the point. It
    is the order-1 jet of the coordinate map, since L_xi x^i = xi^i, which
    each call compiles; for many points, call check_points once."""
    coords = SmoothMap(frame.chart, tuple(Coord(c) for c in frame.chart.coords))
    return is_immersion_at(frame, coords, point, tol)


def _check_manifest(m: Manifest, points: np.ndarray, tol: float, started: float) -> Report:
    """The check of a manifest at the given points and tolerance. Its plan,
    and the judge compiled from it, are built at its first check and kept
    on the manifest for the later ones."""
    plan = build_plan(m)
    try:
        return _check(m.mode, plan, points, tol, started, m.notes)
    except RecursionError:  # a jet or a residual too deep for simplify, diff or compilation
        raise too_deep(m) from None


def run_check(m: Manifest) -> Report:
    """Execute a manifest's check over its sampled domain."""
    started = time.perf_counter()
    return _check_manifest(m, draw_points(m), m.tolerance, started)


def run_fixture(fix: Manifest, samples: int = 10000, seed: int = 0, tol: float = 1e-9) -> Report:
    """Run a gallery fixture (see gallery.fixture) at `samples` random points
    drawn from `seed`, with tolerance `tol`; a bracket-laws fixture's
    tolerance is at least its manifest's (novikov-t3: 1e-8)."""
    started = time.perf_counter()
    if fix.mode == "bracket-laws":
        tol = max(tol, fix.tolerance)
    return _check_manifest(fix, sample_points(fix.chart, samples, seed), tol, started)
