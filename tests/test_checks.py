import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hfree import checks, gallery
from hfree.checks import CHUNK, CHUNK_BYTES, FAILURE_CAP, _Fold, check_points, run_check, run_fixture
from hfree.constructions import compose
from hfree.manifest import MODES, ManifestError, Plan, _build_bracket, build_plan, draw_points, parse_manifest_text


def _pointwise_fold(results, smaller_is_worse):
    """The per-point loop the streaming fold replaces: results are
    (criterion or None, ok, reason) in sample order."""
    failures = []
    worst_idx = worst_val = None
    for i, (crit, ok, reason) in enumerate(results):
        if not ok and len(failures) < FAILURE_CAP:
            failures.append({"point": [float(i)], "reason": reason})
        if crit is None:
            continue
        if worst_val is None or (crit < worst_val if smaller_is_worse else crit > worst_val):
            worst_idx, worst_val = i, crit
    return worst_idx, worst_val, failures, any(not ok for _, ok, _ in results)


# a criterion is never nan (a point without one is None), but sigma may be inf
_criteria = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf]),
    st.floats(allow_nan=False),
)


@given(
    st.lists(st.tuples(_criteria, st.booleans()), max_size=3 * FAILURE_CAP),
    st.booleans(),
    st.integers(1, 40),
)
@example([(0.0, False), (None, False)], False, 1)  # a chunk with no criterion, its crit nan
@settings(max_examples=300, deadline=None)
def test_streaming_fold_matches_the_pointwise_loop(outcomes, smaller_is_worse, chunk):
    """Ties go to the lowest index, the nan held by a point without a
    criterion is never read, and the first FAILURE_CAP failures are kept,
    whatever the chunk size."""
    results = [(crit, ok, None if ok else f"reason {i}") for i, (crit, ok) in enumerate(outcomes)]
    points = np.arange(len(results), dtype=float).reshape(-1, 1)
    fold = _Fold(points, smaller_is_worse)
    for start in range(0, len(results), chunk):
        part = results[start : start + chunk]
        crit = np.array([math.nan if c is None else c for c, _, _ in part])
        has_crit = np.array([c is not None for c, _, _ in part], dtype=bool)
        reasons = {i: reason for i, (_, ok, reason) in enumerate(part) if not ok}
        fold.add(start, crit, has_crit, reasons)
    report = fold.report("test", (), 0.0)

    worst_idx, worst_val, failures, failed = _pointwise_fold(results, smaller_is_worse)
    assert report.worst_point == (None if worst_idx is None else (float(worst_idx),))
    assert repr(report.worst_criterion) == repr(worst_val)
    assert report.failures == failures
    assert report.verdict == ("fail" if failed else "pass")
    assert len(report.to_dict()["failures"]) <= FAILURE_CAP


def _traced(run, monkeypatch):
    """The traced peak of run() and the lengths of the chunks its check folds."""
    lengths, add = [], _Fold.add

    def counted(fold, start, crit, *rest):
        lengths.append(len(crit))
        return add(fold, start, crit, *rest)

    monkeypatch.setattr(_Fold, "add", counted)
    tracemalloc.start()
    try:
        report = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak, lengths


# an identity check whose chunks are longer than CHUNK
IDENTITY_CONTACT_1 = """
[structure]
type = contact
n = 1

[map]
components = ["x1", "p1"]

[check]
mode = identity
"""



def _free(components: str) -> str:
    return f"""
[manifold]
coords = [x, y]
box = [[-1, 1], [-1, 1]]

[frame]
vectors = [["1", "0"], ["0", "1"]]

[map]
components = {components}

[check]
mode = free
"""


# checks whose D2 stacks go to the SVD whole, made dense in batches: a 5 x 5
# D2 of full rank nowhere, which the Gram screen's first pass gives up on,
# and one whose second-derivative row along x is the constant 0, a pattern
# that is never screened
DENSE_SVD = {
    "free-deficient": _free('["x+y", "(x+y)^2", "(x+y)^3*y", "(x+y)^4", "exp(x+y)"]'),
    "free-never-screened": _free('["x", "y", "x*y", "y^2", "y^3"]'),
}


@pytest.mark.parametrize("name", gallery.list_fixtures() + ["identity-contact-1", *DENSE_SVD])
def test_a_check_holds_about_its_chunk_budget(name, monkeypatch):
    """A fixture's check at 10^4 samples, an identity check's or a check
    whose matrices all go to the SVD, its manifest parsed and its jets
    compiled inside the trace, peaks within 1.5 CHUNK_BYTES of traced
    memory, so a judge whose `floats` undercounts what a chunk holds shows
    here; and a check whose chunks are longer than CHUNK, so sized by its
    `floats`, peaks at half of it or more, so an overcount shows too. The
    gallery's jets and residuals are defined on its whole box, and so are
    the other checks', so no chunk runs a trace."""
    text = IDENTITY_CONTACT_1 if name == "identity-contact-1" else DENSE_SVD.get(name) or gallery.show(name)
    report, peak, lengths = _traced(lambda: run_fixture(parse_manifest_text(text), 10000, 0), monkeypatch)
    assert peak <= 1.5 * CHUNK_BYTES
    assert report.verdict == ("fail" if name in DENSE_SVD else "pass")
    if lengths[0] > CHUNK:
        assert peak >= 0.5 * CHUNK_BYTES
    else:
        assert name in gallery.list_fixtures()


# 1/(y - 0.5) faults at y = 0.5, one grid value in 17, so every chunk faults
FAULTING_FREE = """
[manifold]
coords = [x, y]
box = [[-2, 2], [-2, 2]]

[frame]
vectors = [["2*y", "1 - y^2"]]

[map]
components = ["y*exp(x)", "y^2*exp(2*x) + 1/(y-0.5)"]

[check]
mode = free
grid = [600, 17]
"""


# simd: the tape writes ufuncs into their operands' buffers, on numpy's
# overlap path, and a faulting chunk runs it again as a trace.
@pytest.mark.simd
def test_a_faulting_check_holds_at_most_twice_its_chunk_budget(monkeypatch):
    """Every chunk of this check runs its tape once more as a trace, which
    holds the run's buffers and, beside each live value, its fault codes. It
    peaks within 2 CHUNK_BYTES of traced memory, and its report is that of
    chunks of CHUNK points."""
    m = parse_manifest_text(FAULTING_FREE)
    report, peak, lengths = _traced(lambda: run_check(m), monkeypatch)
    assert len(lengths) >= 2 and lengths[0] > CHUNK
    assert peak <= 2 * CHUNK_BYTES
    assert report.verdict == "fail" and {f["reason"] for f in report.failures} == {"division by zero"}
    monkeypatch.setattr(checks, "CHUNK_BYTES", 0)
    assert run_check(m).to_json(False) == report.to_json(False)


def _construct(vectors: str, components: str, outer: str = "", grid: str = "[5, 3]") -> str:
    return f"""
[manifold]
coords = [x, y]
box = [[-1, 1], [-1, 1]]

[frame]
vectors = {vectors}

[map]
components = {components}
{outer}
[check]
mode = construct
grid = {grid}
"""


def test_construct_names_the_immersion_where_d1_drops_rank():
    """x^2 + y along d/dx: D1 = 2x vanishes on the grid line x = 0, where
    D2(F o f) drops to rank 1 as well; the immersion's reason comes first."""
    report = run_check(parse_manifest_text(_construct('[["1", "0"]]', '["x^2 + y"]')))
    assert report.verdict == "fail" and report.mode == "construct"
    assert [f["point"][0] for f in report.failures] == [0.0] * 3
    assert {f["reason"] for f in report.failures} == {"immersion rank 0 < 1"}
    assert report.worst_point == (0.0, -1.0) and report.worst_criterion == 0.0


def test_construct_names_the_free_map_where_only_it_drops_rank():
    """With an outer map whose own D2 is singular at u = 0, D1 of f = x is
    full rank everywhere, and D2(F o f) drops rank on the line x = 0 alone."""
    outer = '[outer]\ncoords = [u]\ncomponents = ["u", "u^3"]\n'
    report = run_check(parse_manifest_text(_construct('[["1", "0"]]', '["x"]', outer)))
    assert [f["point"][0] for f in report.failures] == [0.0] * 3
    assert {f["reason"] for f in report.failures} == {"free-map rank 1 < 2"}


def test_construct_below_the_critical_dimension():
    """Two frame fields and a map of one component: no immersion exists, and
    a second check of the plan, whose judge is None, says so again."""
    m = parse_manifest_text(_construct('[["1", "0"], ["0", "1"]]', '["x + y"]'))
    for _ in range(2):
        report = run_check(m)
        assert report.verdict == "below-critical-dimension" and report.points_checked == 0


@pytest.mark.parametrize(
    "components, outer",
    [
        ('["x"]', '[outer]\ncoords = [u]\ncomponents = ["u", "1/(u - 0.5)"]\n'),
        ('["1/(x - 0.5)"]', ""),
    ],
    ids=["d2-only", "d1-and-d2"],
)
def test_construct_keeps_the_reasons_of_separate_jets(components, outer):
    """Construct mode evaluates D1 of f and D2 of F o f in one tape. At a
    point where one of them faults, the reason is the one the immersion and
    free checks of the two maps give, D1's first: here division by zero on
    the line x = 0.5, where only D2 faults or both do."""
    text = _construct('[["1", "0"]]', components, outer)
    m = parse_manifest_text(text)
    plan = build_plan(m)
    report = run_check(m)
    composite = compose(plan.outer, plan.smap)
    points = draw_points(m)
    separate = {}
    for mode, smap in (("free", composite), ("immersion", plan.smap)):
        for failure in check_points(plan.frame, smap, points, mode).failures:
            separate[tuple(failure["point"])] = failure["reason"]
    assert [f["point"][0] for f in report.failures] == [0.5] * 3
    assert {tuple(f["point"]): f["reason"] for f in report.failures} == separate
    assert set(separate.values()) == {"division by zero"}


def test_construct_outer_needs_a_coordinate_per_component():
    outer = '[outer]\ncoords = [u, v]\ncomponents = ["u", "v", "u*v"]\n'
    with pytest.raises(ManifestError, match=r"bad \[outer\] section"):
        run_check(parse_manifest_text(_construct('[["1", "0"]]', '["x"]', outer)))


@pytest.mark.parametrize("name", ["planar-hamiltonian", "contact-1", "integrable-torus-2"])
@pytest.mark.parametrize("mode", ["immersion", "free", "construct", "identity"])
def test_check_points_is_run_checks_path(name, mode):
    """check_points over a manifest's drawn points gives run_check's report:
    both build a plan and run it through checks._check. 600 points take
    chunks sized by the judge's floats."""
    m = parse_manifest_text(gallery.show(name).replace("mode = construct", f"mode = {mode}\nsamples = 600"))
    plan = build_plan(m)
    report = check_points(plan.frame, plan.smap, draw_points(m), mode, m.tolerance, plan.outer)
    want = run_check(m).to_dict(False)
    got = report.to_dict(False)
    del want["fixture_notes"], got["fixture_notes"]
    assert got == want


def test_every_mode_has_a_judge():
    """checks._judge has a branch for every mode a manifest may name: a rank
    judge, for which a smaller criterion is worse, or None below the critical
    dimension (free mode of a map with 2 components along 2 fields), and a
    residual judge, for which a larger one is worse."""
    m = gallery.fixture("integrable-torus-2")
    built = build_plan(m)
    plan = Plan(built.frame, built.smap, bracket=_build_bracket(m))
    points = draw_points(m)[:50]
    for mode in MODES:
        judge = checks._judge(mode, plan)
        if mode == "free":
            assert judge is None
            continue
        assert judge.smaller_is_worse == (mode in ("immersion", "construct"))
        crit, has_crit, reasons = judge(points, None, 1e-9)
        assert crit.shape == has_crit.shape == (50,) and has_crit.all() and not reasons
    with pytest.raises(ValueError, match="mode must be one of"):
        checks._judge("bracket-law", plan)
