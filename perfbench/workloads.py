"""The benchmark's workloads: seeded inputs plus the verdict each check must
reach. Every check goes through the public API (`hfree.checks.run_fixture`
or `hfree.manifest.parse_manifest_text` + `hfree.checks.run_check`).

- gallery-10k: every gallery fixture at the CLI default of 10^4 samples.
  Per-point jet evaluation and SVD dominate, so a batched engine shows here.
- identity-sweep: identity-mode manifests at k = 1, 2, 3. Time goes to the
  determinant identity's per-point evaluation in `constructions`, which uses
  determinants, not SVD.
- symbolic-cold: generated manifests (see gen.py) on 3-5 coordinates,
  checked at a few dozen points each, so building the symbolic jet is
  nearly all the work. Every pass generates new manifests, so no cache in
  the program can carry work from one pass to the next.

A workload is a list of slots. `checks(seed, pass_index)` returns one Check
per slot; the benchmark runs passes over the slots until its time is up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import gen

SYMBOLIC_SHAPES = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5))
SYMBOLIC_SAMPLES = 32


@dataclass
class Check:
    slot: str
    run: Callable  # () -> hfree.checks.Report
    expected: str


def _subseed(*parts) -> int:
    return random.Random(":".join(str(p) for p in parts)).getrandbits(63)


class Gallery:
    name = "gallery-10k"

    def __init__(self, hfree):
        self.hfree = hfree
        self.slots = list(hfree.gallery.list_fixtures())

    def checks(self, seed: int, pass_index: int) -> list[Check]:
        checks_mod, gallery = self.hfree.checks, self.hfree.gallery
        out = []
        for name in self.slots:
            fix = gallery.fixture(name)
            s = _subseed(self.name, seed, name)
            out.append(Check(name, lambda fix=fix, s=s: checks_mod.run_fixture(fix, samples=10000, seed=s), "pass"))
        return out


_TWO_PI = repr(2 * math.pi)

# (slot, manifest body without [check], samples): samples are sized so each
# manifest takes a comparable share of a pass, and each call well under a
# second, so that the speed probes around a call see the speed it ran at.
IDENTITY_MANIFESTS = (
    (
        "planar-hamiltonian-k1",
        '[manifold]\ncoords = [x, y]\nbox = [[-2, 2], [-2, 2]]\n\n'
        '[frame]\nvectors = [["2*y", "1 - y^2"]]\n\n'
        '[map]\ncomponents = ["y*exp(x)"]\n',
        3000,
    ),
    (
        "contact-1-k2",
        '[structure]\ntype = contact\nn = 1\n\n'
        '[map]\ncomponents = ["x1", "p1"]\n',
        5000,
    ),
    (
        "integrable-torus-3-k3",
        "[manifold]\ncoords = [phi1, phi2, phi3, p1, p2, p3]\n"
        f"box = [[0, {_TWO_PI}], [0, {_TWO_PI}], [0, {_TWO_PI}], [-2, 2], [-2, 2], [-2, 2]]\n"
        "periodic = [true, true, true, false, false, false]\n\n"
        "[structure]\ntype = canonical\nn = 3\n"
        'hamiltonians = ["exp(p1)*cos(phi1)", "exp(p2)*cos(phi2)", "exp(p3)*cos(phi3)"]\n\n'
        '[map]\ncomponents = ["exp(p1)*sin(phi1)", "exp(p2)*sin(phi2)", "exp(p3)*sin(phi3)"]\n',
        250,
    ),
)


def _manifest_check(hfree, slot: str, text: str, expected: str) -> Check:
    def run():
        return hfree.checks.run_check(hfree.manifest.parse_manifest_text(text))

    return Check(slot, run, expected)


class Identity:
    name = "identity-sweep"
    slots = [slot for slot, _, _ in IDENTITY_MANIFESTS]

    def __init__(self, hfree):
        self.hfree = hfree

    def checks(self, seed: int, pass_index: int) -> list[Check]:
        out = []
        for slot, body, samples in IDENTITY_MANIFESTS:
            s = _subseed(self.name, seed, slot)
            text = f"{body}\n[check]\nmode = identity\nsamples = {samples}\nseed = {s}\n"
            out.append(_manifest_check(self.hfree, slot, text, "pass"))
        return out


class Symbolic:
    name = "symbolic-cold"
    slots = [f"k{k}-m{m}-{case}" for k, m in SYMBOLIC_SHAPES for case in gen.CASES]

    def __init__(self, hfree):
        self.hfree = hfree

    def checks(self, seed: int, pass_index: int) -> list[Check]:
        out = []
        for k, m in SYMBOLIC_SHAPES:
            rng = random.Random(f"{self.name}:{seed}:{pass_index}:{k}:{m}")
            for case, text, expected in gen.cases(rng, k, m, SYMBOLIC_SAMPLES):
                out.append(_manifest_check(self.hfree, f"k{k}-m{m}-{case}", text, expected))
        return out


WORKLOADS = {w.name: w for w in (Gallery, Identity, Symbolic)}
