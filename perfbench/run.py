"""hfree benchmark: time to a correct verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hfree is imported from its `src/`. One
caller runs the workload's checks one after another in this process (a
closed loop, HFREE_THREADS=0, BLAS pinned to one thread), in passes over
the workload's slots, until S seconds are used; at least one full pass
always runs. Each check's verdict is compared with the known answer.

Speed correction. On a small shared virtual machine the same code runs up
to twice as fast at one moment as at another, in phases from seconds to
minutes, so raw wall times of whole runs spread by up to 28%. A fixed piece of
interpreter work that uses no hfree code (the probe) is timed between
calls, and each call's wall time is multiplied by PROBE_NOMINAL_S over the
mean probe time around it: the time the call would take on a machine where
the probe takes PROBE_NOMINAL_S. The raw times are printed beside them.

--trace 0 prints the end-to-end metrics, speed-corrected:
  setup_s       median time of a fresh-process `hfree gallery list`, sampled
                at intervals through the run
  wall_s        one pass of the workload's run_fixture/run_check calls: the
                sum over slots of the median time of that slot's calls
  points_per_s  points checked in one pass / wall_s
  peak_rss_mb   peak resident memory of this process
--trace 1 traces the first pass (see spans.py) and prints per-layer metrics
for it, in raw time; later passes run each check untraced and traced, in
alternating order, to measure the tracing overhead.

Every line but the last is for people; the last is the JSON result. The
exit code is 1 when a verdict is wrong or a check raised, 2 on bad usage or
when the checkout has no hfree sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 9
SETUP_CODE = "import sys\nfrom hfree.cli import main\nsys.exit(main(['gallery', 'list']))"
PROBE_NOMINAL_S = 0.004
PROBE_REPEATS = 3

# Pin before numpy is imported: one closed-loop caller, no thread pool.
os.environ["HFREE_THREADS"] = "0"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402  (after the thread pins)

_PROBE_MATRICES = numpy.random.default_rng(0).standard_normal((64, 9, 9))


def import_hfree():
    if not os.path.isfile(os.path.join(SRC, "hfree", "__init__.py")):
        print(f"error: no hfree sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hfree
    import hfree.checks
    import hfree.gallery
    import hfree.manifest

    if not os.path.abspath(hfree.__file__).startswith(SRC + os.sep):
        print(f"error: imported hfree from {hfree.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return hfree


def machine_note() -> str:
    return (
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} blas_threads=1 hfree_threads=0 "
        f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}"
    )


def probe() -> float:
    """Wall time of a fixed piece of work that uses no hfree code: dict,
    tuple and float work in the interpreter, then small SVDs in numpy, the
    two kinds of work the checks do. The garbage collector is off so that
    the program's heap does not reach it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        acc = 0.0
        for i in range(4000):
            key = (i & 63, i & 7)
            table[key] = table.get(key, 0.0) + i * 0.5
            acc += abs(float(i) - 3.5) * 1.0001
        for m in _PROBE_MATRICES:
            numpy.linalg.svd(m, compute_uv=False)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def speed_probe() -> float:
    """The fastest of PROBE_REPEATS probes: the machine's speed at this
    moment, without the odd probe that an interrupt lengthened."""
    return min(probe() for _ in range(PROBE_REPEATS))


class Clock:
    """Times calls, raw and corrected by the probe times around them."""

    def __init__(self):
        self.last_probe = speed_probe()
        self.probes = [self.last_probe]

    def call(self, fn):
        """(raw seconds, corrected seconds, fn's result)."""
        before = self.last_probe
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        self.last_probe = speed_probe()
        self.probes.append(self.last_probe)
        return raw, raw * PROBE_NOMINAL_S * 2 / (before + self.last_probe), result


class Setup:
    """Fresh-process `hfree gallery list` samples, spread over the run so that
    they meet the machine in more than one phase."""

    def __init__(self, clock, expected_lines):
        self.clock = clock
        self.expected = expected_lines
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.raw: list[float] = []
        self.corrected: list[float] = []

    def _once(self):
        return subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60,
        )

    def sample(self):
        raw, corrected, proc = self.clock.call(self._once)
        if proc.returncode != 0 or proc.stdout.split() != self.expected:
            raise RuntimeError(f"`hfree gallery list` failed: rc={proc.returncode} {proc.stderr[-500:]}")
        self.raw.append(raw)
        self.corrected.append(corrected)

    def sample_if_due(self, elapsed, seconds):
        if len(self.raw) < SETUP_SAMPLES and elapsed >= len(self.raw) * seconds / SETUP_SAMPLES:
            self.sample()

    def finish(self):
        while len(self.raw) < SETUP_SAMPLES:
            self.sample()


class Outcomes:
    """Verdicts against the known answers, and times per slot."""

    def __init__(self, slots, clock):
        self.slots = slots
        self.clock = clock
        self.raw = {s: [] for s in slots}
        self.corrected = {s: [] for s in slots}
        self.points = {s: 0 for s in slots}
        self.attempted = self.errors = self.wrong = 0
        self.problems: list[str] = []

    def run(self, check, record=True) -> float:
        """Run one check; returns its corrected time."""

        def guarded():
            try:
                return check.run()
            except Exception as exc:  # a raising check is an error, not a benchmark crash
                return exc

        self.attempted += 1
        raw, corrected, report = self.clock.call(guarded)
        if isinstance(report, Exception):
            self.errors += 1
            self.problems.append(f"{check.slot}: raised {type(report).__name__}: {report}")
            return corrected
        if report.verdict != check.expected:
            self.wrong += 1
            self.problems.append(f"{check.slot}: verdict {report.verdict}, expected {check.expected}")
        self.points[check.slot] = report.points_checked
        if record:
            self.raw[check.slot].append(raw)
            self.corrected[check.slot].append(corrected)
        return corrected

    def expected_time(self, slot) -> float:
        times = self.raw[slot]
        return statistics.median(times) if times else 0.0

    def pass_time(self, times) -> float:
        return sum(statistics.median(times[s]) for s in self.slots if times[s])

    def rows(self, workload):
        for s in self.slots:
            raw, cor = self.raw[s], self.corrected[s]
            if raw:
                print(
                    f"row {workload} {s}: {len(raw)} calls, {self.points[s]} points, median "
                    f"{statistics.median(cor):.4f} s corrected, raw {statistics.median(raw):.4f} s "
                    f"(min {min(raw):.4f} max {max(raw):.4f})"
                )


def run_untraced(workload, seed, seconds, clock, setup) -> Outcomes:
    out = Outcomes(workload.slots, clock)
    start = time.perf_counter()
    p = 0
    while True:
        for check in workload.checks(seed, p):
            elapsed = time.perf_counter() - start
            if p > 0 and elapsed + out.expected_time(check.slot) > seconds:
                return out
            setup.sample_if_due(elapsed, seconds)
            out.run(check)
        p += 1


def run_traced(workload, seed, seconds, clock, tracer):
    """Trace the first pass; then pair untraced and traced calls of the same
    check, in alternating order, for the overhead."""
    out = Outcomes(workload.slots, clock)
    deadline = time.perf_counter() + seconds
    with tracer.installed():
        for check in workload.checks(seed, 0):
            out.run(check)
    first = (dict(tracer.self_s), dict(tracer.calls), dict(tracer.counts))
    plain = traced = 0.0
    p = 1
    while True:
        for i, check in enumerate(workload.checks(seed, p)):
            if plain and time.perf_counter() + 2 * out.expected_time(check.slot) > deadline:
                return out, first, plain, traced
            for on in ((False, True) if (p + i) % 2 else (True, False)):
                if on:
                    with tracer.installed():
                        traced += out.run(check, record=False)
                else:
                    plain += out.run(check, record=False)
        p += 1


def end_to_end(out: Outcomes, setup: Setup, clock: Clock) -> dict:
    wall = out.pass_time(out.corrected)
    raw_wall = out.pass_time(out.raw)
    points = sum(out.points.values())
    print(f"raw setup_s = {statistics.median(setup.raw):.6g} s")
    print(f"raw wall_s = {raw_wall:.6g} s")
    print(f"raw points_per_s = {points / raw_wall:.6g} 1/s")
    print(f"probe: median {statistics.median(clock.probes):.6g} s over {len(clock.probes)}, nominal {PROBE_NOMINAL_S} s")
    return {
        "setup_s": (statistics.median(setup.corrected), "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (points / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(first, plain, traced) -> dict:
    from spans import SPANS

    self_s, calls, counts = first
    points = counts.get("checks.points", 0)
    total = sum(self_s.values())

    def ms(group):
        return self_s.get(group, 0.0) * 1e3

    def us_per_point(group):
        return self_s.get(group, 0.0) * 1e6 / points if points else 0.0

    def share(*groups):
        return 100.0 * sum(self_s.get(g, 0.0) for g in groups) / total if total else 0.0

    for group in SPANS:
        if calls.get(group):
            print(
                f"layer {group}: {calls[group]} calls, self {ms(group):.3f} ms, "
                f"{share(group):.2f}% of traced self time"
            )
        else:
            print(f"layer {group}: absent (no call in the traced pass)")
    return {
        "jets.eval_us_per_point": (us_per_point("jets.eval"), "us/point"),
        "jets.rank_us_per_point": (us_per_point("jets.rank"), "us/point"),
        "jets.symbolic_ms": (ms("jets.symbolic"), "ms"),
        "jets.compile_ms": (ms("jets.compile"), "ms"),
        "constructions.identity_us_per_point": (us_per_point("constructions.identity"), "us/point"),
        "brackets.residual_build_ms": (ms("brackets.residuals"), "ms"),
        "sampling.sample_ms": (ms("sampling"), "ms"),
        "manifest.load_ms": (ms("manifest"), "ms"),
        "checks.fold_ms": (ms("checks"), "ms"),
        "jets.eval_rank_share": (share("jets.eval", "jets.rank"), "%"),
        "jets.symbolic_compile_share": (share("jets.symbolic", "jets.compile"), "%"),
        "constructions.identity_share": (share("constructions.identity"), "%"),
        "jets.entries": (counts.get("jets.entries", 0), "count"),
        "jets.printed_chars": (counts.get("jets.printed_chars", 0), "count"),
        "checks.points": (points, "count"),
        "jets.rank_deficient_points": (counts.get("jets.rank_deficient_points", 0), "count"),
        "trace.overhead": (100.0 * (traced / plain - 1.0) if plain else 0.0, "%"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hfree = import_hfree()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](hfree)
    print(machine_note() + " (before)")

    clock = Clock()
    if args.trace:
        from spans import Tracer

        out, first, plain, traced = run_traced(workload, args.seed, args.seconds, clock, Tracer())
        metrics = per_layer(first, plain, traced)
    else:
        setup = Setup(clock, list(hfree.gallery.list_fixtures()))
        out = run_untraced(workload, args.seed, args.seconds, clock, setup)
        setup.finish()
        out.rows(workload.name)
        metrics = end_to_end(out, setup, clock)

    print(machine_note() + " (after)")
    print(f"metric wrong_verdicts = {out.wrong} count")
    print(f"metric error_share = {out.errors / out.attempted:.6g} (of {out.attempted} checks)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for problem in out.problems[:20]:
        print(f"problem {problem}")
    failed = out.wrong + out.errors
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
