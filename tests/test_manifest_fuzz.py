"""Fuzz the manifest front end: mutations of the README's example manifest
must end in a verdict (exit 0 or 1) or a manifest error (exit 2), never in
an internal error or a traceback, and a verdict's JSON report must be RFC
8259 JSON (no NaN). A [manifold] box with a number that is not finite is a
manifest error."""

import contextlib
import io
import math
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import strict_json
from hfree.cli import main
from hfree.manifest import ManifestError, _parse_value, _strip_comment

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLE = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0].splitlines()
MAX_SAMPLES = 20
# the README's commented [structure] parameters, uncommented
STRUCTURE = [
    line.lstrip("# ")
    for line in EXAMPLE
    if line.lstrip("# ").partition(" ")[0] in ("n", "hamiltonians", "H", "hamiltonian", "sign")
]

_numbers = st.sampled_from([0, -1, 1, 2, 3, 2.5, 1e-9, math.nan, math.inf, -math.inf])
_odd_values = st.sampled_from(["a", "x^", True, [], [[]], "1/x"])


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    if isinstance(value, str):
        return '"' + value.replace('"', "") + '"'
    return repr(value)


def _paths(value, path=()):
    """Paths to every node of a parsed value, the root first."""
    yield path
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _get(value, path):
    for i in path:
        value = value[i]
    return value


def _set(value, path, new):
    if not path:
        return new
    _get(value, path[:-1])[path[-1]] = new
    return value


def _mutate_value(data, value):
    path = data.draw(st.sampled_from(list(_paths(value))))
    node = _get(value, path)
    kind = data.draw(st.sampled_from(["arity", "coordinate", "number", "odd"]))
    if kind == "arity" and isinstance(node, list):
        if node and data.draw(st.booleans()):
            del node[data.draw(st.integers(0, len(node) - 1))]
        else:
            node.append(node[0] if node else data.draw(_numbers))
        return value
    if kind == "coordinate" and isinstance(node, str):
        name = data.draw(st.sampled_from(["x", "y", "p1", "phi1", "z"]))
        return _set(value, path, node.replace(name, data.draw(st.sampled_from(["z", "w", "t"]))))
    if kind == "number":
        return _set(value, path, data.draw(_numbers))
    return _set(value, path, data.draw(_odd_values))


def _mutate(data, lines):
    i = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i].strip()
    ops = ["drop", "duplicate", "uncomment", "value", "odd-chart", "set", "structure", "box-edge"]
    ops += ["huge-factor", "huge-product"]
    op = data.draw(st.sampled_from(ops))
    if op == "drop":
        return lines[:i] + lines[i + 1 :]
    if op == "duplicate":
        return lines[: i + 1] + lines[i:]
    if op == "uncomment" and line.startswith("#"):
        return lines[:i] + [line.lstrip("# ")] + lines[i + 1 :]
    if op == "odd-chart":  # one more coordinate, so the chart's dimension changes parity
        out = []
        for line in lines:
            if line.startswith("coords = ["):
                line = line.replace("]", ", w]", 1)
            elif line.startswith("box = ["):
                line = line[: line.rindex("]")] + ", [-1, 1]]"
            out.append(line)
        return out
    if op == "box-edge":  # one number of the box replaced, often by inf or nan
        for j, line in enumerate(lines):
            if line.startswith("box = "):
                try:
                    box = _parse_value(line.partition("=")[2], 0)
                except ManifestError:
                    return lines
                edges = [p for p in _paths(box) if not isinstance(_get(box, p), list)]
                if edges:
                    box = _set(box, data.draw(st.sampled_from(edges)), data.draw(_numbers))
                    return lines[:j] + [f"box = {_render(box)}"] + lines[j + 1 :]
        return lines
    if op in ("huge-factor", "huge-product"):  # a map component times huge literals
        j = next((j for j, line in enumerate(lines) if line.startswith("components = ")), None)
        if j is None:
            return lines
        try:
            comps = _parse_value(lines[j].partition("=")[2], 0)
        except ManifestError:
            return lines
        if not (isinstance(comps, list) and comps and all(isinstance(c, str) for c in comps)):
            return lines
        c = data.draw(st.integers(0, len(comps) - 1))
        mode = None
        if op == "huge-factor":  # one literal of 100 to 301 digits
            comps[c] = f"{data.draw(st.integers(10**99, 10**300))}*({comps[c]})"
            if data.draw(st.booleans()):  # where det(D1)^(k+2) leaves the float range
                mode = "identity"
        else:  # two 200-digit literals, whose product leaves the float range
            big = st.integers(10**199, 10**200 - 1)
            comps[c] = f"{data.draw(big)}*({comps[c]})*{data.draw(big)}"
            mode = data.draw(st.sampled_from(["immersion", "identity", "bracket-laws"]))
        out = lines[:j] + [f"components = {_render(comps)}"] + lines[j + 1 :]
        if mode is not None:
            out = [f"mode = {mode}" if line.startswith("mode = ") else line for line in out]
        return out
    if op == "structure":  # a named structure in place of the frame
        kind = data.draw(st.sampled_from(["canonical", "riemann-poisson", "contact", "bogus"]))
        params = data.draw(st.lists(st.sampled_from(STRUCTURE), unique=True))
        out = [line for line in lines if not line.startswith("vectors")]
        j = next((j for j, line in enumerate(out) if line.startswith("[frame]")), len(out))
        return out[:j] + ["[structure]", f"type = {kind}"] + params + out[j + 1 :]
    if op == "set":
        key, value = data.draw(
            st.sampled_from(
                [("mode", m) for m in ("immersion", "free", "identity", "bracket-laws", "bogus")]
                + [("type", t) for t in ("canonical", "riemann-poisson", "contact", "bogus", "[1]")]
            )
        )
        return lines[:i] + [f"{key} = {value}"] + lines[i:]
    if op == "value" and "=" in line and not line.startswith("#"):
        key, _, rhs = line.partition("=")
        try:
            value = _parse_value(rhs.split("#")[0], 0)
        except ManifestError:
            return lines
        return lines[:i] + [f"{key.strip()} = {_render(_mutate_value(data, value))}"] + lines[i + 1 :]
    return lines


def _capped(value, cap):
    if isinstance(value, list):
        return [_capped(v, cap) for v in value]
    big = isinstance(value, (int, float)) and not isinstance(value, bool) and value > cap
    return cap if big else value


def _small(lines):
    """Cap `samples` and the grid counts, so that a check stays small, and
    add `samples` under [check] where it is missing."""
    out, seen = [], False
    for line in lines:
        key, _, rhs = line.partition("=")
        cap = {"samples": MAX_SAMPLES, "grid": 4}.get(key.strip())
        if cap is not None:
            seen = seen or key.strip() == "samples"
            try:
                line = f"{key.strip()} = {_render(_capped(_parse_value(rhs.split('#')[0], 0), cap))}"
            except ManifestError:
                pass
        out.append(line)
    if not seen and "[check]" in out:
        out.insert(out.index("[check]") + 1, f"samples = {MAX_SAMPLES}")
    return out


def _non_finite_box(lines) -> bool:
    """Whether a box line of the [manifold] section holds a number that is
    not finite."""
    section = None
    for line in lines:
        line = _strip_comment(line).strip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
        elif section == "manifold" and line.partition("=")[0].strip() == "box":
            try:
                box = _parse_value(line.partition("=")[2], 0)
            except ManifestError:
                continue
            leaves = (_get(box, p) for p in _paths(box))
            if any(isinstance(v, float) and not math.isfinite(v) for v in leaves):
                return True
    return False


@given(data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_readme_manifest_exits_zero_one_or_two(data, tmp_path_factory):
    lines = list(EXAMPLE)
    for _ in range(data.draw(st.integers(1, 5))):
        lines = _mutate(data, lines)
    text = "\n".join(_small(lines)) + "\n"
    path = tmp_path_factory.mktemp("fuzz") / "manifest.toml"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path), "--json"])
    assert code in ((2,) if _non_finite_box(text.splitlines()) else (0, 1, 2)), (text, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 2:
        strict_json(out.getvalue())
