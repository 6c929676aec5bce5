"""Acceptance gate: one test per criterion, each at its pinned tolerance,
printing a single pass/fail line. Run with `pytest tests/test_acceptance.py -s`
to see the lines directly; under capture they appear in the test report.
"""

import io
import json
import os
import random
import subprocess
import sys
import textwrap
from contextlib import redirect_stdout
from functools import lru_cache

import numpy as np

import hfree
from hfree.brackets import SymplecticChart, contact_frame, poisson_bracket
from hfree.checks import bracket_law_residuals, run_check
from hfree.cli import main
from hfree.constructions import DetIdentity, monomial_free_map
from hfree.expr import ONE, ZERO, compile_batch, diff, parse, simplify, Sub
from hfree.fields import lie_derivative
from hfree.gallery import list_fixtures
from hfree.jets import CompiledJet, d1_exprs, d2_exprs, s
from hfree.manifest import parse_manifest_text
from hfree.sampling import sample_points

from helpers import (
    block_residual,
    bounded_pair,
    central_difference,
    contact_form_values,
    evaluate,
    fixture_parts,
    sym_square,
)

GEOMETRIC_FIXTURES = [n for n in list_fixtures() if n != "novikov-t3"]
BRACKET_FIXTURES = [
    "integrable-torus-1",
    "integrable-torus-2",
    "integrable-torus-3",
    "novikov-t3",
    "riemann-poisson-e3",
]


def _record(num: int, name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d} {name}: {'pass' if ok else 'fail'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@lru_cache(maxsize=None)
def _fixture_scan(name: str):
    """One pass over the 10^4 seed-0 points that `gallery run` checks by
    default: worst expected-formula residual (relative), worst first-integral
    derivative, worst order-1 and order-2 sigma_min, and full-rank flags."""
    fix = fixture_parts(name)
    points = fix.chart.point_array(sample_points(fix.chart, 10000, 0))
    formulas = []
    for row, col, expected in fix.expected:
        actual = lie_derivative(fix.frame.vectors[row], fix.immersion.components[col])
        formulas += [simplify(Sub(actual, expected)), expected]
    formulas += [lie_derivative(fix.frame.vectors[0], w) for w in fix.witnesses]
    values, errors = compile_batch(formulas, fix.chart.coords)(points)
    assert not errors
    n = 2 * len(fix.expected)
    residual, scale = np.abs(values[:, 0:n:2]), np.abs(values[:, 1:n:2])
    (r1,) = CompiledJet([d1_exprs(fix.frame, fix.immersion)], fix.chart).ranks(points)
    (r2,) = CompiledJet([d2_exprs(fix.frame, fix.free_map)], fix.chart).ranks(points)
    return {
        "worst_formula": float((residual / np.maximum(1.0, scale)).max(initial=0.0)),
        "worst_witness": float(np.abs(values[:, n:]).max(initial=0.0)),
        "worst_d1": float(r1.sigma_min.min()),
        "worst_d2": float(r2.sigma_min.min()),
        "immersion_ok": not r1.reasons and bool(r1.full_rank.all()),
        "free_ok": not r2.reasons and bool(r2.full_rank.all()),
    }


def test_criterion_1_gallery_positivity():
    worst_formula = worst_witness = 0.0
    ok = True
    for name in GEOMETRIC_FIXTURES:
        scan = _fixture_scan(name)
        ok = ok and scan["immersion_ok"] and scan["worst_formula"] <= 1e-10 and scan["worst_witness"] <= 1e-12
        worst_formula = max(worst_formula, scan["worst_formula"])
        worst_witness = max(worst_witness, scan["worst_witness"])
    _record(
        1,
        "gallery positivity",
        ok,
        f"9 fixtures x 10^4 pts, worst formula residual {worst_formula:.2e}, "
        f"worst first-integral derivative {worst_witness:.2e}",
    )


def test_criterion_2_freeness_by_composition():
    ok = True
    worst = float("inf")
    for name in GEOMETRIC_FIXTURES:
        scan = _fixture_scan(name)
        ok = ok and scan["free_ok"]
        worst = min(worst, scan["worst_d2"])
    _record(
        2,
        "freeness by composition",
        ok,
        f"9 fixtures x 10^4 pts, min sigma_min {worst:.2e}",
    )


@lru_cache(maxsize=None)
def _identity_instances():
    """Criterion-3 instances: the planar fixtures (k = 1) and seeded random
    degree-<=2 maps with the standard frame for k = 2, 3."""
    from test_constructions import random_quadratic_map

    instances = []
    for name in ("planar-hamiltonian", "planar-finite-type", "planar-intrinsically-exact"):
        fix = fixture_parts(name)
        instances.append((name, fix.frame, fix.immersion, monomial_free_map(1)))
    rng = random.Random(2024)
    for k in (2, 3):
        frame, smap = random_quadratic_map(k, rng)
        instances.append((f"random-quadratic-{k}", frame, smap, monomial_free_map(k)))
    return tuple(instances)


@lru_cache(maxsize=None)
def _identity_and_block_residuals():
    worst_identity = 0.0
    worst_block = 0.0
    for _, frame, smap, outer in _identity_instances():
        identity = DetIdentity(frame, smap, outer)
        points = sample_points(frame.chart, 100, 17)
        _, _, rel, failures = identity.residuals(points)
        d2_inner, d2_outer, d2_composite, _ = identity.blocks(points)
        assert not failures
        worst_identity = max(worst_identity, float(rel.max()))
        for blocks in zip(d2_inner, d2_outer, d2_composite):
            worst_block = max(worst_block, block_residual(*blocks))
    return worst_identity, worst_block


def test_criterion_3_determinant_identity():
    worst, _ = _identity_and_block_residuals()
    _record(
        3,
        "determinant identity",
        worst <= 1e-9,
        f"5 instances x 100 pts, worst residual {worst:.2e}",
    )


def test_criterion_4_representation_law():
    rng = np.random.default_rng(99)
    worst_det = 0.0
    worst_mult = 0.0
    for k in (1, 2, 3, 4):
        for _ in range(100):
            a = rng.uniform(-2.0, 2.0, size=(k, k))
            lhs = float(np.linalg.det(sym_square(a)))
            rhs = float(np.linalg.det(a)) ** (k + 1)
            worst_det = max(worst_det, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        b = rng.uniform(-2.0, 2.0, size=(k, k))
        prod = sym_square(a @ b)
        split = sym_square(a) @ sym_square(b)
        scale = max(1.0, float(np.abs(prod).max()))
        worst_mult = max(worst_mult, float(np.abs(prod - split).max()) / scale)
    ok = worst_det <= 1e-10 and worst_mult <= 1e-10
    _record(
        4,
        "representation law",
        ok,
        f"det law {worst_det:.2e}, multiplicativity {worst_mult:.2e}",
    )


def test_criterion_5_block_law():
    _, worst = _identity_and_block_residuals()
    _record(5, "block law", worst <= 1e-9, f"worst entrywise residual {worst:.2e}")


def test_criterion_6_calculus_oracle():
    rng = random.Random(4242)
    worst_fd = 0.0
    worst_mixed = 0.0
    for _ in range(1000):
        e, point = bounded_pair(rng)
        for coord in ("x", "y"):
            sym = evaluate(diff(e, coord), point)
            fd = central_difference(e, coord, point)
            worst_fd = max(worst_fd, abs(sym - fd) / max(1.0, abs(sym)))
        xy = evaluate(diff(diff(e, "x"), "y"), point)
        yx = evaluate(diff(diff(e, "y"), "x"), point)
        worst_mixed = max(worst_mixed, abs(xy - yx) / max(1.0, abs(xy)))
    ok = worst_fd <= 1e-6 and worst_mixed <= 1e-12
    _record(
        6,
        "calculus oracle",
        ok,
        f"1000 pairs, FD residual {worst_fd:.2e}, mixed partials {worst_mixed:.2e}",
    )


def test_criterion_7_bracket_laws():
    worst = {"antisymmetry": 0.0, "leibniz": 0.0, "jacobi": 0.0}
    for name in BRACKET_FIXTURES:
        fix = fixture_parts(name)
        residuals = bracket_law_residuals(fix.bracket, list(fix.bracket_tests))
        points = fix.chart.point_array(sample_points(fix.chart, 100, 23))
        values, errors = compile_batch([e for _, e in residuals], fix.chart.coords)(points)
        assert not errors
        for (label, _), column in zip(residuals, np.abs(values).T):
            worst[label] = max(worst[label], float(column.max()))
    # involution of the torus first integrals: exact symbolic zero
    fix = fixture_parts("integrable-torus-3")
    sc = SymplecticChart(n=3, chart=fix.chart)
    integrals = [parse(f"exp(p{a})*cos(phi{a})") for a in (1, 2, 3)]
    involution_ok = all(
        poisson_bracket(sc, integrals[a], integrals[b]) == ZERO
        for a in range(3)
        for b in range(3)
        if a != b
    )
    ok = (
        worst["antisymmetry"] == 0.0
        and worst["leibniz"] <= 1e-10
        and worst["jacobi"] <= 1e-8
        and involution_ok
    )
    _record(
        7,
        "bracket laws",
        ok,
        "antisymmetry {antisymmetry:.1e}, leibniz {leibniz:.1e}, jacobi {jacobi:.1e}".format(
            **worst
        ),
    )


def test_criterion_8_contact_structure():
    theta_ok = all(
        all(e == ZERO for e in contact_form_values(contact_frame(n))) for n in (1, 2, 3, 4)
    )
    d1_ok = True
    det_ok = True
    for n in (1, 2):
        fix = fixture_parts(f"contact-{n}")
        rows = d1_exprs(fix.frame, fix.immersion)
        d1_ok = d1_ok and all(
            rows[a][i] == (ONE if a == i else ZERO)
            for a in range(2 * n)
            for i in range(2 * n)
        )
        det_ok = det_ok and _fixture_scan(f"contact-{n}")["free_ok"]
    ok = theta_ok and d1_ok and det_ok
    _record(
        8,
        "contact structure",
        ok,
        "theta(xi)=0 for n<=4, D1(pi)=I, det D2 nonzero at 10^4 pts",
    )


_DETERMINISM_ARGS = [
    "gallery", "run", "integrable-torus-2", "--samples", "2000", "--seed", "13", "--json",
]


def _strip_wall_time(payload: str) -> str:
    data = json.loads(payload)
    data.pop("wall_time_ms")
    return json.dumps(data, indent=2)


def _gallery_run_json() -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(_DETERMINISM_ARGS)
    assert code == 0
    return _strip_wall_time(buf.getvalue())


def _gallery_run_json_fresh_interpreter() -> str:
    src = os.path.dirname(os.path.dirname(hfree.__file__))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "hfree.cli", *_DETERMINISM_ARGS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return _strip_wall_time(out.stdout)


def test_criterion_9_determinism():
    first = _gallery_run_json()
    second = _gallery_run_json()
    fresh = _gallery_run_json_fresh_interpreter()
    ok = first == second == fresh
    _record(
        9,
        "determinism",
        ok,
        "byte-identical JSON, two in-process runs and a fresh interpreter with PYTHONHASHSEED=0",
    )


def test_criterion_10_below_critical_guard():
    manifest = parse_manifest_text(
        textwrap.dedent(
            """
            [manifold]
            coords = [x, y]
            box = [[-2, 2], [-2, 2]]

            [frame]
            vectors = [["2*y", "1 - y^2"]]

            [map]
            components = ["y*exp(x)"]

            [check]
            mode = free
            samples = 100
            """
        )
    )
    report = run_check(manifest)
    ok = (
        report.verdict == "below-critical-dimension"
        and report.exit_code == 1
        and report.points_checked == 0
    )
    _record(10, "below-critical guard", ok, f"verdict {report.verdict!r}, exit {report.exit_code}")
