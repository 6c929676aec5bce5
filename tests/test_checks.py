import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hfree import gallery
from hfree.checks import CHUNK_BYTES, FAILURE_CAP, _Fold, run_fixture


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


@pytest.mark.parametrize("name", gallery.list_fixtures())
def test_a_check_holds_about_its_chunk_budget(name):
    """A fixture's check at 10^4 samples, its jets compiled inside the trace,
    peaks within 1.5 CHUNK_BYTES of traced memory, so a judge whose `floats`
    undercounts what a chunk holds shows here. The gallery's formulas and jets
    are defined on its whole box; a chunk where a tape faults runs once more
    as a trace, which keeps one code array per register beside the values,
    so that chunk may peak at about twice the budget."""
    fix = gallery.fixture(name)
    tracemalloc.start()
    try:
        run_fixture(fix, 10000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * CHUNK_BYTES
