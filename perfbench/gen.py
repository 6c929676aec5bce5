"""Seeded generator of manifests whose verdicts are known by construction.

A random triangular diffeomorphism Phi(x)_i = x_i + p_i(x_1..x_{i-1}) on R^m
has the inverse psi given by nested substitution,
psi_i(y) = y_i - p_i(psi_1(y), ..., psi_{i-1}(y)). With the frame
xi_a = (dPhi/dx_a) o psi (a <= k) and the map f = (psi_1, ..., psi_k), the
order-1 jet D1(f) = (L_{xi_a} psi_i) = (dx_i/dx_a) is exactly the identity.
So, with F_k the monomial free map:

- `immersion` on f passes;
- `free` on F_k o f passes (the composition theorem);
- `free` on F_k o (f_1, ..., f_1) fails: its columns depend on f_1 alone,
  and L_{xi_c} f_1 = 0 for c >= 2;
- `free` on f is `below-critical-dimension` (k < k + s_k components).

Every expression is built twice, as a DSL string for hfree and as a Python
`math` function, and `check_identity_jet` confirms D1(f) = I with central
differences on the Python twin, so the generator is checked without
`hfree.diff`.
"""

from __future__ import annotations

import math
import random

BOX = 1.0
COEFFS = (-0.5, -0.25, 0.25, 0.5)
CASES = ("immersion", "free", "free-repeated", "free-below")


class Term:
    """One term of a p_i: c * x_j, c * x_j * x_l, c * sin(x_j) or c * cos(x_j)."""

    def __init__(self, kind: str, c: float, j: int, l: int = -1):
        self.kind, self.c, self.j, self.l = kind, c, j, l

    def src(self, xs: list[str]) -> str:
        a = xs[self.j]
        if self.kind == "lin":
            return f"{self.c!r}*({a})"
        if self.kind == "prod":
            return f"{self.c!r}*({a})*({xs[self.l]})"
        return f"{self.c!r}*{self.kind}({a})"

    def num(self, xs: list[float]) -> float:
        a = xs[self.j]
        if self.kind == "lin":
            return self.c * a
        if self.kind == "prod":
            return self.c * a * xs[self.l]
        return self.c * (math.sin(a) if self.kind == "sin" else math.cos(a))

    def d_src(self, a: int, xs: list[str]) -> str | None:
        """d/dx_a of the term, written by hand (independent of hfree.diff);
        None where it vanishes."""
        if self.kind == "prod":
            parts = []
            if self.j == a:
                parts.append(f"({xs[self.l]})")
            if self.l == a:
                parts.append(f"({xs[self.j]})")
            if not parts:
                return None
            return f"{self.c!r}*({' + '.join(parts)})"
        if self.j != a:
            return None
        if self.kind == "lin":
            return f"{self.c!r}"
        if self.kind == "sin":
            return f"{self.c!r}*cos({xs[self.j]})"
        return f"{-self.c!r}*sin({xs[self.j]})"

    def d_num(self, a: int, xs: list[float]) -> float:
        if self.kind == "prod":
            return self.c * ((xs[self.l] if self.j == a else 0.0) + (xs[self.j] if self.l == a else 0.0))
        if self.j != a:
            return 0.0
        if self.kind == "lin":
            return self.c
        if self.kind == "sin":
            return self.c * math.cos(xs[self.j])
        return -self.c * math.sin(xs[self.j])


def _random_terms(rng: random.Random, i: int) -> list[Term]:
    """c1 * sin|cos(x_{i-1}) + c2 * x_{i-1} * x_{i-2} (c2 * x_0 when i = 1),
    0-based. The shape is fixed, so
    every seed builds expressions of the same size; the seed picks the
    coefficients and the trigonometric function."""
    trig = Term(rng.choice(("sin", "cos")), rng.choice(COEFFS), i - 1)
    if i == 1:
        return [trig, Term("lin", rng.choice(COEFFS), 0)]
    return [trig, Term("prod", rng.choice(COEFFS), i - 1, i - 2)]


class Diffeo:
    """Phi(x)_i = x_i + c_i + sum(terms_i), with its inverse psi in both forms."""

    def __init__(self, rng: random.Random, m: int):
        self.m = m
        self.shift = [rng.choice(COEFFS)] + [0.0] * (m - 1)
        self.terms = [[]] + [_random_terms(rng, i) for i in range(1, m)]
        self.coords = [f"y{i + 1}" for i in range(m)]
        self.psi_src: list[str] = []
        for i in range(m):
            p = [f"{self.shift[i]!r}"] if self.shift[i] else []
            p += [t.src(self.psi_src) for t in self.terms[i]]
            self.psi_src.append(f"{self.coords[i]} - ({' + '.join(p)})")

    def psi(self, y) -> list[float]:
        xs: list[float] = []
        for i in range(self.m):
            xs.append(y[i] - self.shift[i] - sum(t.num(xs) for t in self.terms[i]))
        return xs

    def frame_src(self, a: int) -> list[str]:
        """Components of (dPhi/dx_a) o psi in the y coordinates."""
        comps = []
        for i in range(self.m):
            if i == a:
                comps.append("1")
                continue
            parts = [d for t in self.terms[i] if (d := t.d_src(a, self.psi_src)) is not None]
            comps.append(" + ".join(parts) if parts else "0")
        return comps

    def frame_num(self, a: int, y) -> list[float]:
        xs = self.psi(y)
        return [
            1.0 if i == a else sum(t.d_num(a, xs) for t in self.terms[i])
            for i in range(self.m)
        ]


def check_identity_jet(d: Diffeo, k: int, rng: random.Random, points: int = 3, h: float = 1e-5) -> None:
    """Central-difference check of L_{xi_a} psi_i = delta_ai on the Python
    twin; raises AssertionError if the generator is wrong."""
    for _ in range(points):
        y = [rng.uniform(-BOX, BOX) for _ in range(d.m)]
        for a in range(k):
            xi = d.frame_num(a, y)
            for i in range(k):
                grad = []
                for j in range(d.m):
                    up, dn = list(y), list(y)
                    up[j] += h
                    dn[j] -= h
                    grad.append((d.psi(up)[i] - d.psi(dn)[i]) / (2 * h))
                value = sum(x * g for x, g in zip(xi, grad))
                want = 1.0 if a == i else 0.0
                if abs(value - want) > 1e-6 * max(1.0, sum(abs(x * g) for x, g in zip(xi, grad))):
                    raise AssertionError(
                        f"generator: L_xi{a} psi{i} = {value!r} at {y}, want {want}"
                    )


def _quote(items) -> str:
    return "[" + ", ".join(f'"{s}"' for s in items) + "]"


def monomial_of(f: list[str]) -> list[str]:
    """Components of F_k o f: degree-1 first, then f_a * f_b for a <= b."""
    k = len(f)
    return f + [f"({f[a]})*({f[b]})" for a in range(k) for b in range(a, k)]


def manifest_text(d: Diffeo, k: int, components: list[str], mode: str, samples: int, seed: int) -> str:
    vectors = ", ".join(_quote(d.frame_src(a)) for a in range(k))
    box = ", ".join(f"[{-BOX}, {BOX}]" for _ in range(d.m))
    return (
        f"[manifold]\ncoords = [{', '.join(d.coords)}]\nbox = [{box}]\n\n"
        f"[frame]\nvectors = [{vectors}]\n\n"
        f"[map]\ncomponents = {_quote(components)}\n\n"
        f"[check]\nmode = {mode}\nsamples = {samples}\nseed = {seed}\n"
    )


def cases(rng: random.Random, k: int, m: int, samples: int) -> list[tuple[str, str, str]]:
    """(case, manifest text, expected verdict) for each of CASES, from one
    generated diffeomorphism on m coordinates with a k-field frame."""
    d = Diffeo(rng, m)
    check_identity_jet(d, k, rng)
    f = d.psi_src[:k]
    seed = rng.getrandbits(63)
    maps = {
        "immersion": ("immersion", f, "pass"),
        "free": ("free", monomial_of(f), "pass"),
        "free-repeated": ("free", monomial_of([f[0]] * k), "fail"),
        "free-below": ("free", f, "below-critical-dimension"),
    }
    return [
        (case, manifest_text(d, k, maps[case][1], maps[case][0], samples, seed), maps[case][2])
        for case in CASES
    ]
