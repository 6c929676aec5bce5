"""Spans around the calls into each hfree layer, recorded from outside the
program: while installed, the tracer replaces each traced public name, in
every hfree module that binds it, with a wrapper that times the call.

Spans are aggregated in memory per group: calls and self time (the span's
duration minus the time its child spans cover). Time the wrapper spends on
its own bookkeeping (the exact counts) is charged to no span. A traced name
that no longer exists is skipped, and its group is reported as absent.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# group -> (module, attribute) of each traced name; "Class.method" patches a
# method. The checks module binds most of these by name, so the wrapper is
# installed wherever the original object is bound.
SPANS = {
    "checks": [("hfree.checks", "run_check"), ("hfree.checks", "run_fixture")],
    "manifest": [
        ("hfree.manifest", "parse_manifest_text"),
        ("hfree.manifest", "build_frame"),
        ("hfree.manifest", "build_map"),
        ("hfree.manifest", "build_outer"),
    ],
    "sampling": [("hfree.sampling", "sample_points")],
    "jets.symbolic": [("hfree.jets", "d1_exprs"), ("hfree.jets", "d2_exprs")],
    "jets.compile": [("hfree.jets", "CompiledJet.__init__")],
    "jets.eval": [("hfree.jets", "CompiledJet.at")],
    "jets.rank": [("hfree.jets", "rank_check")],
    "constructions.identity": [("hfree.constructions", "verify_det_identity")],
    "brackets.residuals": [("hfree.checks", "bracket_law_residuals")],
}


class Tracer:
    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list = []  # [group, child seconds] per open span
        self._to_str = sys.modules["hfree.expr"].to_str

    def _count(self, group, result):
        if group == "jets.symbolic" and not any(g == group for g, _ in self._stack):
            # outermost symbolic call only: d2_exprs calls d1_exprs itself
            for row in result:
                self.counts["jets.entries"] += len(row)
                self.counts["jets.printed_chars"] += sum(len(self._to_str(e)) for e in row)
        elif group == "jets.rank" and not result.full_rank:
            self.counts["jets.rank_deficient_points"] += 1
        elif group == "checks":
            self.counts["checks.points"] += result.points_checked

    def _wrap(self, group, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [group, 0.0]
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                took = clock() - start
                stack.pop()
                self.self_s[group] += took - frame[1]
                self.calls[group] += 1
                if ok:
                    self._count(group, result)
                if stack:
                    stack[-1][1] += clock() - start
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        undo = []
        try:
            for group, names in SPANS.items():
                for module_name, attr in names:
                    self._patch(group, module_name, attr, undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _patch(self, group, module_name, attr, undo):
        module = sys.modules.get(module_name)
        if module is None:
            return
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                return
            undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(group, original))
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self._wrap(group, original)
        for name, mod in list(sys.modules.items()):
            if not (name == "hfree" or name.startswith("hfree.")) or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
