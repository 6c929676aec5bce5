"""The gallery: named manifests that check PAPER.md's construction, a free
map F composed with a partial immersion f, in construct mode (novikov-t3
checks the bracket laws of its structure instead). `show` gives a fixture's
manifest text, which `hfree check` runs as `gallery run` does; `fixture`
parses it once per process, so the plan and tapes built at its first check
serve every later one."""

from __future__ import annotations

import math
import textwrap

from .manifest import Manifest, parse_manifest_text


def _planar(vector, component: str) -> str:
    return f"""[manifold]
coords = [x, y]
box = [[-2, 2], [-2, 2]]

[frame]
vectors = [["{vector[0]}", "{vector[1]}"]]

[map]
components = ["{component}"]

[check]
mode = construct
"""


def _torus(n: int) -> str:
    """integrable-torus-n: the canonical frame of the first integrals
    exp(p_a) cos(phi_a) on T^n x R^n."""
    axes = range(1, n + 1)
    quoted = lambda form: ", ".join(f'"{form.format(a=a)}"' for a in axes)
    return f"""[manifold]
coords = [{", ".join(f"phi{a}" for a in axes)}, {", ".join(f"p{a}" for a in axes)}]
box = [{", ".join([f"[0, {2 * math.pi!r}]"] * n + ["[-2, 2]"] * n)}]
periodic = [{", ".join(["true"] * n + ["false"] * n)}]

[structure]
type = canonical
n = {n}
hamiltonians = [{quoted("exp(p{a})*cos(phi{a})")}]

[map]
components = [{quoted("exp(p{a})*sin(phi{a})")}]

[check]
mode = construct
"""


def _contact(n: int) -> str:
    """contact-n: the projection that forgets t, along the contact frame."""
    coords = [f"x{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)]
    return f"""[structure]
type = contact
n = {n}

[map]
components = [{", ".join(f'"{c}"' for c in coords)}]

[check]
mode = construct
"""


_RIEMANN_POISSON_E3 = """[manifold]
coords = [x, y, z]
box = [[-2, 2], [-2, 2], [-2, 2]]

[structure]
type = riemann-poisson
H = ["(1-y^2)*exp(x)"]
hamiltonian = "(1+x^2)*z + sin(x*y)"
sign = -1

[map]
components = ["y*exp(x)"]

[check]
mode = construct
"""

_NOVIKOV_T3 = f"""[manifold]
coords = [theta1, theta2, theta3]
box = [[0, {2 * math.pi!r}], [0, {2 * math.pi!r}], [0, {2 * math.pi!r}]]
periodic = [true, true, true]

[structure]
type = riemann-poisson
H_gradients = [["0", "0", "1"]]

[map]
components = ["sin(theta1) + cos(theta2)", "cos(theta1)*sin(theta3)", "sin(theta2)*cos(theta3) + sin(theta1)"]

[check]
mode = bracket-laws
tolerance = 1e-8
"""

# name -> (manifest text, notes its reports carry)
_FIXTURES = {
    "planar-hamiltonian": (_planar(("2*y", "1 - y^2"), "y*exp(x)"), ()),
    "planar-finite-type": (_planar(("3*y - 1", "1 - y^2"), "y*exp(x)"), ()),
    "planar-intrinsically-exact": (
        _planar(("y*(1 - y^2)", "1 - 3*y^2"), "y*(1 - y^2)*exp(x)"),
        (
            "the source displays this derivative without the exp(x) factor; "
            "direct computation carries it, consistent with the general "
            "norm-squared-over-weight rule",
        ),
    ),
    **{f"integrable-torus-{n}": (_torus(n), ()) for n in (1, 2, 3)},
    "riemann-poisson-e3": (
        _RIEMANN_POISSON_E3,
        (
            "sign pinned to -1: with rows (grad H, grad h, grad f) the plain "
            "gradient determinant gives -(1+y^2)*lambda*exp(2x) for f = y*exp(x)",
        ),
    ),
    "novikov-t3": (_NOVIKOV_T3, ("bracket-laws only: no immersion is claimed for this structure",)),
    **{f"contact-{n}": (_contact(n), ()) for n in (1, 2)},
}

_parsed: dict = {}


def list_fixtures() -> list[str]:
    return list(_FIXTURES)


def _entry(name: str):
    try:
        return _FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown fixture '{name}'; known: {', '.join(_FIXTURES)}") from None


def show(name: str) -> str:
    """The fixture's manifest text, its notes as leading comments."""
    text, notes = _entry(name)
    comments = [f"# {line}\n" for note in notes for line in textwrap.wrap(f"note: {note}", 76)]
    return "".join(comments) + ("\n" if comments else "") + text


def fixture(name: str) -> Manifest:
    """The fixture's manifest, parsed at the first call in a process."""
    if name not in _parsed:
        text, notes = _entry(name)
        _parsed[name] = parse_manifest_text(text)
        _parsed[name].notes = notes
    return _parsed[name]
